"""Delegation chain discovery: rewrite, resolve, check.

The search starts from the asking namespace's attribute and rewrites it
through published delegation records until every open obligation is closed
by one of the subject's credentials (or by the subject's key itself). A node
is one obligation: (namespace key, attribute trail). Expanding a node
resolves the trail's first label in that namespace; each returned record is
one alternative (OR), and each entry inside a record is one conjunct (AND)
whose trail is prepended to the remaining suffix.

Scheduling is deterministic and credential-guided. Obligations whose trail
is longer than one can never be closed by a single credential, so they are
resolved eagerly in FIFO order. Single-label obligations are checked against
the credential set immediately on creation and resolved lazily otherwise,
preferring namespaces that issued one of the subject's credentials. The
result is a reproducible resolve sequence and no speculative lookups once
the goal is reachable.

Every (namespace, label) pair is resolved at most once per call. Dead ends
(authoritative absence) fail only their own branch; network-class backend
errors abort the whole search, because "could not find out" must never
masquerade as a denial.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .core import RecordType, ResourceRecord, check_label
from .credential import Credential, verify_credential
from .delegation import (
    MAX_TRAIL_LEN,
    DelegationSetEntry,
    decode_attr_payload,
    render_term,
)
from .errors import (
    BackendError,
    DecodeError,
    LimitExceeded,
    NotFound,
    TrailTooLong,
)
from .netsim import NameSystemBackend, resolve


@dataclass(frozen=True)
class Limits:
    max_trail_len: int = MAX_TRAIL_LEN
    max_nodes: int = 10_000
    max_lookups: int = 10_000


def rewrite(
    entry: DelegationSetEntry,
    suffix: tuple[str, ...],
    max_trail_len: int = MAX_TRAIL_LEN,
) -> tuple[bytes, tuple[str, ...]]:
    """Prepend an entry's trail to the pending suffix.

    The suffix is what remains of the parent obligation after its first
    label was resolved; the entry must now satisfy its own trail plus that
    remainder.
    """
    trail = entry.trail + suffix
    if len(trail) > max_trail_len:
        raise TrailTooLong(
            f"rewritten trail has {len(trail)} labels (limit {max_trail_len})"
        )
    return entry.subject, trail


# --- trace -------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # resolve | expand | no_credential | credential_match |
    #            entity_match | dead_end | chain_found | exhausted
    subject: Optional[bytes] = None
    label: Optional[str] = None
    trail: Optional[tuple[str, ...]] = None
    children: Optional[tuple[tuple[bytes, tuple[str, ...]], ...]] = None
    credential: Optional[Credential] = None
    note: Optional[str] = None


@dataclass
class DiscoveryTrace:
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, **kwargs) -> None:
        self.events.append(TraceEvent(**kwargs))

    def resolves(self) -> list[tuple[bytes, str]]:
        return [(e.subject, e.label) for e in self.events if e.kind == "resolve"]

    def render(self, names_by_key: Optional[Mapping[bytes, str]] = None) -> list[str]:
        lines = []
        for event in self.events:
            if event.kind == "resolve":
                lines.append(
                    f"resolve {render_term(event.subject, [event.label], names_by_key)}"
                    f" -> {event.note}"
                )
            elif event.kind == "expand":
                children = ", ".join(
                    render_term(s, t, names_by_key) for s, t in event.children
                )
                lines.append(
                    f"  rewrite {render_term(event.subject, event.trail, names_by_key)}"
                    f" => {children}"
                )
            elif event.kind == "no_credential":
                lines.append(
                    f"  no credential for"
                    f" {render_term(event.subject, event.trail, names_by_key)}"
                )
            elif event.kind == "credential_match":
                lines.append(
                    f"  credential matches"
                    f" {render_term(event.subject, event.trail, names_by_key)}"
                )
            elif event.kind == "entity_match":
                lines.append(
                    f"  subject key matches {render_term(event.subject, (), names_by_key)}"
                )
            elif event.kind == "dead_end":
                lines.append(
                    f"  dead end at {render_term(event.subject, event.trail, names_by_key)}"
                    + (f": {event.note}" if event.note else "")
                )
            else:
                lines.append(event.kind)
        return lines


# --- chains ------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    """One resolved delegation: the record used and how it rewrote."""

    subject: bytes
    trail: tuple[str, ...]
    record: ResourceRecord
    rewritten: tuple[tuple[bytes, tuple[str, ...]], ...]

    @property
    def label(self) -> str:
        return self.trail[0]


@dataclass(frozen=True)
class ChainLeaf:
    """A closed obligation: by credential, or by the subject's own key."""

    subject: bytes
    trail: tuple[str, ...]
    credential: Optional[Credential] = None


@dataclass(frozen=True)
class DelegationChain:
    issuer: bytes
    attribute: str
    steps: tuple[ChainStep, ...]
    leaves: tuple[ChainLeaf, ...]

    def credentials(self) -> list[Credential]:
        return [leaf.credential for leaf in self.leaves if leaf.credential is not None]

    def to_dict(self, names_by_key: Optional[Mapping[bytes, str]] = None) -> dict:
        from .credential import export_json

        names_by_key = names_by_key or {}
        return {
            "root": render_term(self.issuer, (self.attribute,), names_by_key),
            "issuer": self.issuer.hex(),
            "attribute": self.attribute,
            "steps": [
                {
                    "at": render_term(step.subject, step.trail, names_by_key),
                    "namespace": step.subject.hex(),
                    "trail": list(step.trail),
                    "record": step.record.canonical_bytes().hex(),
                    "rewritten": [
                        render_term(subject, trail, names_by_key)
                        for subject, trail in step.rewritten
                    ],
                }
                for step in self.steps
            ],
            "leaves": [
                {
                    "at": render_term(leaf.subject, leaf.trail, names_by_key),
                    "credential": (
                        export_json(leaf.credential) if leaf.credential else None
                    ),
                }
                for leaf in self.leaves
            ],
        }


# --- search ------------------------------------------------------------------

_PENDING, _SATISFIED, _DEAD = "pending", "satisfied", "dead"


class _Group:
    """One record alternative: satisfied when every member node is."""

    __slots__ = ("node", "record", "members", "rewritten", "satisfied")

    def __init__(self, node: "_Node", record: ResourceRecord, rewritten):
        self.node = node
        self.record = record
        self.rewritten = rewritten
        self.members: list[_Node] = []
        self.satisfied = False


class _Node:
    __slots__ = (
        "subject",
        "trail",
        "status",
        "groups",
        "parents",
        "credential",
        "entity",
        "satisfied_via",
    )

    def __init__(self, subject: bytes, trail: tuple[str, ...]):
        self.subject = subject
        self.trail = trail
        self.status = _PENDING
        self.groups: list[_Group] = []
        self.parents: list[_Group] = []
        self.credential: Optional[Credential] = None
        self.entity = False
        self.satisfied_via: Optional[_Group] = None

    @property
    def key(self) -> tuple[bytes, tuple[str, ...]]:
        return (self.subject, self.trail)


def _propagate(node: _Node) -> None:
    stack = [node]
    while stack:
        current = stack.pop()
        for group in current.parents:
            if group.satisfied:
                continue
            if all(member.status == _SATISFIED for member in group.members):
                group.satisfied = True
                owner = group.node
                if owner.status != _SATISFIED:
                    owner.status = _SATISFIED
                    owner.satisfied_via = group
                    stack.append(owner)


def discover(
    issuer_pub: bytes,
    attribute: str,
    subject_pub: bytes,
    subject_creds: Iterable[Credential],
    backend: NameSystemBackend,
    clock: int,
    limits: Limits = Limits(),
    trace: Optional[DiscoveryTrace] = None,
) -> Optional[DelegationChain]:
    """Find a delegation chain from issuer.attribute to the subject.

    Returns None when the search space is exhausted without a chain. The
    trail bound prunes alternatives that can only grow past it, keeping the
    node space finite; the node and lookup budgets raise LimitExceeded when
    hit. Network-class backend errors propagate: an unreachable name system
    is not a denial.
    """
    check_label(attribute)
    trace = trace if trace is not None else DiscoveryTrace()

    # Foreign or expired credentials can never close an obligation; drop
    # them up front. Deterministic order makes credential choice stable.
    usable = sorted(
        (
            c
            for c in subject_creds
            if c.subject == subject_pub and verify_credential(c, clock)
        ),
        key=lambda c: c.canonical_bytes(),
    )
    cred_index: dict[tuple[bytes, str], Credential] = {}
    for cred in usable:
        cred_index.setdefault((cred.issuer, cred.attribute), cred)
    hinted_issuers = {cred.issuer for cred in usable}

    nodes: dict[tuple[bytes, tuple[str, ...]], _Node] = {}
    queue_must: deque[_Node] = deque()  # trails >= 2: only resolution helps
    queue_hinted: deque[_Node] = deque()  # trail == 1, namespace issued a credential
    queue_cold: deque[_Node] = deque()
    resolve_memo: dict[tuple[bytes, str], Optional[list[ResourceRecord]]] = {}
    lookups = 0

    def get_or_create(subject: bytes, trail: tuple[str, ...]) -> _Node:
        key = (subject, trail)
        node = nodes.get(key)
        if node is not None:
            return node
        if len(nodes) >= limits.max_nodes:
            raise LimitExceeded("max_nodes", limits.max_nodes)
        node = _Node(subject, trail)
        nodes[key] = node
        if len(trail) == 1:
            credential = cred_index.get((subject, trail[0]))
            if credential is not None:
                node.status = _SATISFIED
                node.credential = credential
                trace.add(
                    kind="credential_match",
                    subject=subject,
                    trail=trail,
                    credential=credential,
                )
                return node
            trace.add(kind="no_credential", subject=subject, trail=trail)
            if subject in hinted_issuers:
                queue_hinted.append(node)
            else:
                queue_cold.append(node)
        elif len(trail) == 0:
            if subject == subject_pub:
                node.status = _SATISFIED
                node.entity = True
                trace.add(kind="entity_match", subject=subject)
            else:
                node.status = _DEAD
                trace.add(
                    kind="dead_end",
                    subject=subject,
                    trail=trail,
                    note="foreign key, no attribute left to resolve",
                )
        else:
            queue_must.append(node)
        return node

    def resolve_once(subject: bytes, label: str) -> Optional[list[ResourceRecord]]:
        nonlocal lookups
        key = (subject, label)
        if key in resolve_memo:
            return resolve_memo[key]
        if lookups >= limits.max_lookups:
            raise LimitExceeded("max_lookups", limits.max_lookups)
        lookups += 1
        try:
            records = resolve(label, subject, RecordType.ATTR, backend, clock)
        except NotFound:
            resolve_memo[key] = None
            trace.add(kind="resolve", subject=subject, label=label, note="not found")
            return None
        resolve_memo[key] = records
        trace.add(
            kind="resolve",
            subject=subject,
            label=label,
            note=f"{len(records)} record(s)",
        )
        return records

    def expand(node: _Node) -> None:
        head, rest = node.trail[0], node.trail[1:]
        records = resolve_once(node.subject, head)
        if not records:
            node.status = _DEAD
            trace.add(
                kind="dead_end",
                subject=node.subject,
                trail=node.trail,
                note="nothing delegated" if records is not None else "no record set",
            )
            return
        satisfied_any = False
        for record in records:
            try:
                expr = decode_attr_payload(record.payload)
            except DecodeError as exc:
                trace.add(
                    kind="dead_end",
                    subject=node.subject,
                    trail=node.trail,
                    note=f"malformed record skipped: {exc}",
                )
                continue
            try:
                rewritten = tuple(
                    rewrite(entry, rest, limits.max_trail_len)
                    for entry in expr.entries
                )
            except TrailTooLong:
                # This alternative can only grow; it cannot be satisfied
                # within the trail bound. Other alternatives keep going.
                trace.add(
                    kind="dead_end",
                    subject=node.subject,
                    trail=node.trail,
                    note=f"rewrite exceeds the {limits.max_trail_len}-label trail bound",
                )
                continue
            group = _Group(node, record, rewritten)
            trace.add(
                kind="expand",
                subject=node.subject,
                trail=node.trail,
                children=rewritten,
            )
            seen: set[tuple[bytes, tuple[str, ...]]] = set()
            for child_subject, child_trail in rewritten:
                child_key = (child_subject, child_trail)
                if child_key in seen:
                    continue
                seen.add(child_key)
                child = get_or_create(child_subject, child_trail)
                group.members.append(child)
                child.parents.append(group)
            node.groups.append(group)
            if all(member.status == _SATISFIED for member in group.members):
                group.satisfied = True
                if node.status != _SATISFIED:
                    node.status = _SATISFIED
                    node.satisfied_via = group
                    satisfied_any = True
        if satisfied_any:
            _propagate(node)

    root = get_or_create(issuer_pub, (attribute,))
    while root.status != _SATISFIED:
        if queue_must:
            node = queue_must.popleft()
        elif queue_hinted:
            node = queue_hinted.popleft()
        elif queue_cold:
            node = queue_cold.popleft()
        else:
            break
        if node.status != _PENDING:
            continue
        expand(node)

    if root.status != _SATISFIED:
        trace.add(kind="exhausted")
        return None

    trace.add(kind="chain_found")
    return _build_chain(root)


def _build_chain(root: _Node) -> DelegationChain:
    steps: list[ChainStep] = []
    leaves: list[ChainLeaf] = []
    seen: set[tuple[bytes, tuple[str, ...]]] = set()
    queue: deque[_Node] = deque([root])
    while queue:
        node = queue.popleft()
        if node.key in seen:
            continue
        seen.add(node.key)
        if node.credential is not None:
            leaves.append(
                ChainLeaf(
                    subject=node.subject, trail=node.trail, credential=node.credential
                )
            )
        elif node.entity:
            leaves.append(ChainLeaf(subject=node.subject, trail=node.trail))
        else:
            group = node.satisfied_via
            assert group is not None
            steps.append(
                ChainStep(
                    subject=node.subject,
                    trail=node.trail,
                    record=group.record,
                    rewritten=group.rewritten,
                )
            )
            queue.extend(group.members)
    return DelegationChain(
        issuer=root.subject,
        attribute=root.trail[0],
        steps=tuple(steps),
        leaves=tuple(leaves),
    )


# --- chain verification --------------------------------------------------------


def verify_chain(
    chain: DelegationChain,
    subject_pub: bytes,
    backend: NameSystemBackend,
    clock: int,
) -> tuple[bool, list[str]]:
    """Re-check a chain against the current name system state.

    Every step's record must resolve right now, every rewrite must follow
    from the record's entries, every conjunct must be covered, and every
    leaf must be a live credential for the subject (or the subject's key).
    Returns (ok, diagnostics); never raises.
    """
    diagnostics: list[str] = []
    steps = {(step.subject, step.trail): step for step in chain.steps}
    leaves = {(leaf.subject, leaf.trail): leaf for leaf in chain.leaves}
    memo: dict[tuple[bytes, tuple[str, ...]], bool] = {}
    in_progress: set[tuple[bytes, tuple[str, ...]]] = set()

    def describe(subject: bytes, trail: tuple[str, ...]) -> str:
        return render_term(subject, trail)

    def check(subject: bytes, trail: tuple[str, ...]) -> bool:
        key = (subject, trail)
        if key in memo:
            return memo[key]
        if key in in_progress:
            diagnostics.append(f"cycle through {describe(subject, trail)}")
            return False
        in_progress.add(key)
        try:
            ok = _check_inner(subject, trail)
        finally:
            in_progress.discard(key)
        memo[key] = ok
        return ok

    def _check_inner(subject: bytes, trail: tuple[str, ...]) -> bool:
        key = (subject, trail)
        leaf = leaves.get(key)
        if leaf is not None:
            if leaf.credential is None:
                if trail or subject != subject_pub:
                    diagnostics.append(
                        f"entity leaf {describe(subject, trail)} does not name the subject"
                    )
                    return False
                return True
            credential = leaf.credential
            if len(trail) != 1:
                diagnostics.append(
                    f"credential leaf at {describe(subject, trail)} closes a trail"
                )
                return False
            if credential.issuer != subject or credential.attribute != trail[0]:
                diagnostics.append(
                    f"credential at {describe(subject, trail)} asserts a different attribute"
                )
                return False
            if credential.subject != subject_pub:
                diagnostics.append(
                    f"credential at {describe(subject, trail)} names a different subject"
                )
                return False
            if not verify_credential(credential, clock):
                diagnostics.append(
                    f"credential at {describe(subject, trail)} is expired or forged"
                )
                return False
            return True
        step = steps.get(key)
        if step is None:
            diagnostics.append(f"no step or leaf covers {describe(subject, trail)}")
            return False
        if not trail:
            diagnostics.append(f"step at {describe(subject, trail)} has no label")
            return False
        try:
            records = resolve(trail[0], subject, RecordType.ATTR, backend, clock)
        except NotFound:
            diagnostics.append(
                f"record for {describe(subject, trail)} no longer resolves"
            )
            return False
        except BackendError as exc:
            diagnostics.append(
                f"network failure re-resolving {describe(subject, trail)}: {exc}"
            )
            return False
        wanted = step.record.canonical_bytes()
        if not any(r.canonical_bytes() == wanted for r in records):
            diagnostics.append(
                f"record used at {describe(subject, trail)} is not currently published"
            )
            return False
        try:
            expr = decode_attr_payload(step.record.payload)
        except DecodeError as exc:
            diagnostics.append(f"record at {describe(subject, trail)} is malformed: {exc}")
            return False
        expected = tuple(
            (entry.subject, entry.trail + trail[1:]) for entry in expr.entries
        )
        if step.rewritten != expected:
            diagnostics.append(
                f"rewrites at {describe(subject, trail)} do not follow from the record"
            )
            return False
        ok = True
        for child_subject, child_trail in dict.fromkeys(expected):
            if not check(child_subject, child_trail):
                ok = False
        return ok

    ok = check(chain.issuer, (chain.attribute,))
    return ok, diagnostics


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
